"""Concurrency suite for the synthesis service daemon (repro/serving).

Covers the daemon invariants that only show up under concurrency:

* ``ServiceStats`` keeps exact counts under many-thread contention;
* hot-reload is atomic — no batch ever observes a half-swapped generation,
  and every batch's answers are byte-identical to synchronous
  :class:`MappingService` calls against the generation it was tagged with;
* backpressure (bounded queue) and per-batch deadline expiry;
* clean shutdown with in-flight work, draining or cancelling the backlog;
* the :class:`ArtifactWatcher` end-to-end: a ``refresh_artifact`` publish
  hot-swaps the daemon, and damaged artifact bytes are never swapped in.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.applications import (
    CorrectRequest,
    FillRequest,
    JoinRequest,
    MappingService,
    ServiceStats,
)
from repro.core.binary_table import ValuePair
from repro.core.config import SynthesisConfig
from repro.core.mapping import MappingRelationship
from repro.core.pipeline import SynthesisPipeline
from repro.corpus.corpus import TableCorpus
from repro.corpus.seeds import get_seed_relation
from repro.serving import (
    DaemonStoppedError,
    DeadlineExpiredError,
    QueueFullError,
    SynthesisDaemon,
)

pytestmark = pytest.mark.daemon

STATES = [left for left, _ in get_seed_relation("state_abbrev").pairs]
ABBREVS = [right for _, right in get_seed_relation("state_abbrev").pairs]


def mapping_from_seed(name: str) -> MappingRelationship:
    relation = get_seed_relation(name)
    return MappingRelationship(
        mapping_id=name,
        pairs=[ValuePair(left, right) for left, right in relation.pairs],
        domains={"seed"},
    )


def seed_service() -> MappingService:
    return MappingService(
        [mapping_from_seed("state_abbrev"), mapping_from_seed("country_iso3")]
    )


def variant_service(tag: str) -> MappingService:
    """A service whose fill answers are distinguishable per variant tag."""
    pairs = [
        ValuePair(left, f"{right}:{tag}")
        for left, right in get_seed_relation("state_abbrev").pairs
    ]
    mapping = MappingRelationship(
        mapping_id=f"state_abbrev:{tag}", pairs=pairs, domains={"seed"}
    )
    return MappingService([mapping])


def answers(responses) -> list[tuple]:
    """The comparable part of a response batch (everything but timing)."""
    return [(r.kind, r.request_index, r.result, r.error) for r in responses]


class GatedService(MappingService):
    """A service whose batches block until the test opens the gate."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()
        self.entered = threading.Event()

    def _serve_batch(self, kind, requests, handler):
        self.entered.set()
        assert self.gate.wait(timeout=30), "test gate never opened"
        return super()._serve_batch(kind, requests, handler)


def gated_daemon(**kwargs) -> tuple[SynthesisDaemon, GatedService]:
    service = GatedService([mapping_from_seed("state_abbrev")])
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("queue_size", 8)
    return SynthesisDaemon(service, **kwargs), service


# ---------------------------------------------------------------------------------------
# ServiceStats thread-safety
# ---------------------------------------------------------------------------------------
class TestServiceStatsConcurrency:
    THREADS = 8
    PER_THREAD = 2500

    def test_record_keeps_exact_counts_under_contention(self):
        stats = ServiceStats()
        barrier = threading.Barrier(self.THREADS)

        def hammer(thread_index: int) -> None:
            barrier.wait()
            for i in range(self.PER_THREAD):
                # Alternate kinds and inject errors on a fixed schedule so the
                # expected per-kind totals are exact.
                kind = "autofill" if i % 2 == 0 else "autojoin"
                stats.record(kind, elapsed=1.0, ok=(i % 5 != 0))
                stats.record_batch()

        threads = [
            threading.Thread(target=hammer, args=(index,))
            for index in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = self.THREADS * self.PER_THREAD
        per_kind = total // 2
        # i % 5 == 0 fails; among 0..2499, evens (autofill) hit 0,10,20,... and
        # odds (autojoin) hit 5,15,25,...: 250 failures each per thread.
        failures_per_kind = self.THREADS * (self.PER_THREAD // 10)
        assert stats.requests == {"autofill": per_kind, "autojoin": per_kind}
        assert stats.errors == {
            "autofill": failures_per_kind,
            "autojoin": failures_per_kind,
        }
        # elapsed=1.0 sums exactly in floating point, so lost updates would
        # show up here too, not just in the integer counters.
        assert stats.serve_seconds == {
            "autofill": float(per_kind),
            "autojoin": float(per_kind),
        }
        assert stats.batches == total
        assert stats.total_requests == total

    def test_latency_percentile_window(self):
        stats = ServiceStats()
        for value in [0.001, 0.002, 0.003, 0.004, 0.1]:
            stats.record("autofill", elapsed=value, ok=True)
        assert stats.latency_percentile("autofill", 0.0) == 0.001
        assert stats.latency_percentile("autofill", 0.5) == 0.003
        assert stats.latency_percentile("autofill", 1.0) == 0.1
        assert stats.latency_percentile("missing-kind", 0.95) == 0.0
        with pytest.raises(ValueError):
            stats.latency_percentile("autofill", 1.5)

    def test_as_dict_is_generation_tagged(self):
        stats = ServiceStats(generation=7)
        stats.record("autofill", elapsed=0.5, ok=True)
        snapshot = stats.as_dict()
        assert snapshot["generation"] == 7
        assert snapshot["total_requests"] == 1


# ---------------------------------------------------------------------------------------
# Basic daemon behaviour
# ---------------------------------------------------------------------------------------
class TestDaemonServing:
    def test_answers_match_synchronous_service(self):
        reference = seed_service()
        requests = {
            "autofill": [
                FillRequest(keys=("California", "Texas", "Ohio", "Nevada")),
                FillRequest(keys=("Kenya", "Brazil", "Japan", "Norway")),
            ],
            "autojoin": [
                JoinRequest(
                    left_keys=("California", "Texas"), right_keys=("TX", "CA")
                )
            ],
            "autocorrect": [
                CorrectRequest(values=("California", "CA", "Washington", "WA", "Oregon"))
            ],
        }
        with SynthesisDaemon(seed_service(), workers=3, queue_size=8) as daemon:
            tickets = {
                kind: daemon.submit(kind, batch) for kind, batch in requests.items()
            }
            for kind, ticket in tickets.items():
                result = ticket.result(timeout=10)
                assert result.kind == kind
                assert result.generation == 1
                expected = getattr(reference, kind)(requests[kind])
                assert answers(result.responses) == answers(expected)
                assert repr(answers(result.responses)) == repr(answers(expected))
                assert result.total_seconds >= result.served_seconds >= 0.0

    def test_per_request_errors_stay_enveloped(self):
        with SynthesisDaemon(seed_service(), workers=2) as daemon:
            result = daemon.autofill(
                [
                    FillRequest(keys=("California",), examples={9: "CA"}),
                    FillRequest(keys=("California", "Texas"), examples={0: "CA"}),
                ]
            ).result(timeout=10)
            assert not result.ok
            assert not result.responses[0].ok
            assert "out of range" in result.responses[0].error
            assert result.responses[1].ok

    def test_unknown_kind_and_bad_deadline_rejected(self):
        with SynthesisDaemon(seed_service(), workers=1) as daemon:
            with pytest.raises(ValueError, match="unknown request kind"):
                daemon.submit("autoguess", [])
            with pytest.raises(ValueError, match="deadline"):
                daemon.autofill([], deadline=-1.0)

    def test_drain_returns_completed_tickets(self):
        with SynthesisDaemon(seed_service(), workers=2, queue_size=32) as daemon:
            tickets = [
                daemon.autofill([FillRequest(keys=tuple(STATES[i : i + 3]))])
                for i in range(12)
            ]
            drained = daemon.drain(timeout=30)
            assert set(drained) >= set(tickets)
            assert all(ticket.done() for ticket in tickets)

    def test_daemon_stats_accumulate_across_workers(self):
        with SynthesisDaemon(seed_service(), workers=4, queue_size=64) as daemon:
            for i in range(20):
                daemon.autofill([FillRequest(keys=tuple(STATES[i % 10 : i % 10 + 3]))])
            daemon.drain(timeout=30)
            stats = daemon.stats
            assert stats.generation == 1
            assert stats.batches == 20
            assert stats.requests == {"autofill": 20}
            assert stats.latency_percentile("autofill", 0.5) > 0.0


# ---------------------------------------------------------------------------------------
# Backpressure and deadlines
# ---------------------------------------------------------------------------------------
class TestBackpressure:
    def test_queue_full_raises(self):
        daemon, service = gated_daemon(workers=1, queue_size=2)
        try:
            first = daemon.autofill([FillRequest(keys=("California",))])
            assert service.entered.wait(timeout=10)  # worker is now gated
            queued = [
                daemon.autofill([FillRequest(keys=("Texas",))]) for _ in range(2)
            ]
            with pytest.raises(QueueFullError):
                daemon.autofill([FillRequest(keys=("Ohio",))])
            with pytest.raises(QueueFullError):
                daemon.autofill(
                    [FillRequest(keys=("Ohio",))], block=True, timeout=0.05
                )
            service.gate.set()
            for ticket in [first, *queued]:
                assert ticket.result(timeout=10).ok
        finally:
            service.gate.set()
            daemon.close()

    def test_blocking_submit_waits_for_capacity(self):
        daemon, service = gated_daemon(workers=1, queue_size=1)
        try:
            first = daemon.autofill([FillRequest(keys=("California",))])
            assert service.entered.wait(timeout=10)
            filler = daemon.autofill([FillRequest(keys=("Texas",))])

            def release_soon():
                time.sleep(0.1)
                service.gate.set()

            threading.Thread(target=release_soon).start()
            # The queue is full; with block=True this submission waits for the
            # gate to open instead of raising.
            blocked = daemon.autofill(
                [FillRequest(keys=("Ohio",))], block=True, timeout=10
            )
            assert blocked.result(timeout=10).ok
            assert first.result(timeout=10).ok
            assert filler.result(timeout=10).ok
        finally:
            service.gate.set()
            daemon.close()

    def test_deadline_expiry_in_queue(self):
        daemon, service = gated_daemon(workers=1, queue_size=8)
        try:
            first = daemon.autofill([FillRequest(keys=("California",))])
            assert service.entered.wait(timeout=10)
            doomed = daemon.autofill(
                [FillRequest(keys=("Texas",))], deadline=0.05
            )
            relaxed = daemon.autofill(
                [FillRequest(keys=("Ohio",))], deadline=30.0
            )
            time.sleep(0.2)  # let the doomed batch's deadline lapse in-queue
            service.gate.set()
            assert first.result(timeout=10).ok
            with pytest.raises(DeadlineExpiredError):
                doomed.result(timeout=10)
            assert relaxed.result(timeout=10).ok
        finally:
            service.gate.set()
            daemon.close()

    def test_explicit_zero_deadline_fails_fast(self):
        """deadline=0.0 means 'already out of budget', not 'no deadline'."""
        daemon, service = gated_daemon(workers=1, queue_size=8)
        try:
            first = daemon.autofill([FillRequest(keys=("California",))])
            assert service.entered.wait(timeout=10)
            doomed = daemon.autofill([FillRequest(keys=("Texas",))], deadline=0.0)
            time.sleep(0.01)
            service.gate.set()
            assert first.result(timeout=10).ok
            with pytest.raises(DeadlineExpiredError):
                doomed.result(timeout=10)
        finally:
            service.gate.set()
            daemon.close()

    def test_default_deadline_from_constructor(self):
        daemon, service = gated_daemon(workers=1, queue_size=8, default_deadline=0.05)
        try:
            # The gated request carries its own long deadline: under load the
            # worker may take longer than 50 ms to dequeue it.  Only the
            # second request falls back to the constructor's default.
            first = daemon.autofill([FillRequest(keys=("California",))], deadline=30.0)
            assert service.entered.wait(timeout=10)
            doomed = daemon.autofill([FillRequest(keys=("Texas",))])
            time.sleep(0.2)
            service.gate.set()
            assert first.result(timeout=10).ok
            with pytest.raises(DeadlineExpiredError):
                doomed.result(timeout=10)
        finally:
            service.gate.set()
            daemon.close()


# ---------------------------------------------------------------------------------------
# Hot reload atomicity
# ---------------------------------------------------------------------------------------
class TestHotReload:
    def test_no_batch_observes_a_half_swapped_generation(self):
        """Batches racing many reloads always match exactly one generation."""
        variants = ("a", "b")
        expected: dict[str, list] = {}
        request = FillRequest(keys=tuple(STATES[:8]))
        for tag in variants:
            expected[tag] = answers(variant_service(tag).autofill([request]))
        # The two variants must actually disagree, or the test proves nothing.
        assert expected["a"] != expected["b"]

        daemon = SynthesisDaemon(variant_service("a"), workers=3, queue_size=64)
        variant_of_generation = {1: "a"}
        stop_swapping = threading.Event()

        def swapper():
            toggle = 0
            while not stop_swapping.is_set():
                toggle += 1
                tag = variants[toggle % 2]
                generation = daemon.reload(variant_service(tag), source=f"swap:{tag}")
                variant_of_generation[generation.number] = tag
                time.sleep(0.002)

        swap_thread = threading.Thread(target=swapper)
        swap_thread.start()
        try:
            tickets = []
            for _ in range(120):
                tickets.append(daemon.autofill([request]))
                if len(tickets) % 16 == 0:
                    daemon.drain(timeout=30)
            results = [ticket.result(timeout=30) for ticket in tickets]
        finally:
            stop_swapping.set()
            swap_thread.join()
            daemon.close()

        observed_generations = set()
        for result in results:
            tag = variant_of_generation[result.generation]
            assert answers(result.responses) == expected[tag], (
                f"batch served by generation {result.generation} ({tag!r}) does "
                "not match that generation's synchronous answers"
            )
            observed_generations.add(result.generation)
        assert len(observed_generations) > 1, "swaps never interleaved with serving"

    def test_in_flight_batch_finishes_on_its_snapshot(self):
        service = GatedService([mapping_from_seed("state_abbrev")])
        daemon = SynthesisDaemon(service, workers=1, queue_size=8)
        try:
            reference = answers(
                seed_service().autofill([FillRequest(keys=tuple(STATES[:4]))])
            )
            ticket = daemon.autofill([FillRequest(keys=tuple(STATES[:4]))])
            assert service.entered.wait(timeout=10)
            daemon.reload(variant_service("late"), source="swap:late")
            service.gate.set()
            result = ticket.result(timeout=10)
            assert result.generation == 1
            assert answers(result.responses) == reference
        finally:
            service.gate.set()
            daemon.close()

    def test_generations_keep_separate_tagged_stats(self):
        daemon = SynthesisDaemon(seed_service(), workers=1)
        try:
            daemon.autofill([FillRequest(keys=("California",))]).result(timeout=10)
            daemon.reload(seed_service(), source="swap")
            daemon.autofill([FillRequest(keys=("Texas",))]).result(timeout=10)
            daemon.autofill([FillRequest(keys=("Ohio",))]).result(timeout=10)
            first, second = daemon.stats_by_generation()
            assert (first.generation, second.generation) == (1, 2)
            assert first.requests == {"autofill": 1}
            assert second.requests == {"autofill": 2}
            assert daemon.stats is second
        finally:
            daemon.close()

    def test_await_generation_returns_the_generation_reached(self):
        daemon = SynthesisDaemon(seed_service(), workers=1)
        try:
            assert daemon.await_generation(1, timeout=30) == 1  # already there
            started = time.monotonic()
            assert daemon.await_generation(2, timeout=0.05) == 1  # timed out
            assert time.monotonic() - started >= 0.05
            reloader = threading.Thread(
                target=lambda: (time.sleep(0.05), daemon.reload(seed_service()))
            )
            reloader.start()
            assert daemon.await_generation(2, timeout=30) == 2
            reloader.join()
        finally:
            daemon.close()
        started = time.monotonic()
        assert daemon.await_generation(9, timeout=30) == 2  # closed: no wait
        assert time.monotonic() - started < 5


# ---------------------------------------------------------------------------------------
# Shutdown
# ---------------------------------------------------------------------------------------
class TestShutdown:
    def test_close_drains_in_flight_and_queued_work(self):
        daemon, service = gated_daemon(workers=1, queue_size=8)
        tickets = [
            daemon.autofill([FillRequest(keys=(state,))]) for state in STATES[:5]
        ]
        assert service.entered.wait(timeout=10)
        closer = threading.Thread(target=daemon.close, kwargs={"drain": True})
        closer.start()
        time.sleep(0.05)
        assert closer.is_alive(), "close(drain=True) must wait for the backlog"
        service.gate.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        for ticket in tickets:
            assert ticket.result(timeout=1).ok
        with pytest.raises(DaemonStoppedError):
            daemon.autofill([FillRequest(keys=("Texas",))])

    def test_close_without_drain_cancels_queued_work(self):
        daemon, service = gated_daemon(workers=1, queue_size=8)
        tickets = [
            daemon.autofill([FillRequest(keys=(state,))]) for state in STATES[:5]
        ]
        assert service.entered.wait(timeout=10)
        closer = threading.Thread(target=daemon.close, kwargs={"drain": False})
        closer.start()
        time.sleep(0.05)
        service.gate.set()
        closer.join(timeout=30)
        assert not closer.is_alive()
        # The in-flight batch completes; everything still queued is cancelled.
        assert tickets[0].result(timeout=1).ok
        outcomes = [ticket.exception(timeout=1) for ticket in tickets[1:]]
        assert all(isinstance(exc, DaemonStoppedError) for exc in outcomes)

    def test_close_is_idempotent(self):
        daemon = SynthesisDaemon(seed_service(), workers=2)
        daemon.close()
        daemon.close(drain=False)
        assert daemon.closed


# ---------------------------------------------------------------------------------------
# Artifact watcher: publish -> hot swap
# ---------------------------------------------------------------------------------------
def _store_config(**overrides) -> SynthesisConfig:
    return SynthesisConfig(
        use_pmi_filter=False,
        min_domains=1,
        min_mapping_size=2,
        min_rows=4,
        **overrides,
    )


def _grow(corpus: TableCorpus) -> TableCorpus:
    from store_helpers import make_fragment_corpus, seed_fragments

    extra = make_fragment_corpus(
        seed_fragments("city_state", "cs"), headers=("city", "state"), name="delta"
    )
    return TableCorpus(corpus.tables() + extra.tables(), name=f"{corpus.name}+delta")


FILL_BATCH = [
    FillRequest(keys=("California", "Texas", "Ohio", "Washington")),
    FillRequest(keys=("Kenya", "Brazil", "Japan", "Norway")),
]


class TestArtifactWatcher:
    def _wait_for_generation(self, daemon, number, timeout=15.0) -> None:
        deadline = time.monotonic() + timeout
        while daemon.generation.number < number:
            if time.monotonic() > deadline:
                pytest.fail(
                    f"daemon never reached generation {number}; "
                    f"stuck at {daemon.generation.number}"
                )
            time.sleep(0.01)

    def test_refresh_publish_hot_swaps_atomically(self, store_corpus, tmp_path):
        path = tmp_path / "served.artifact.gz"
        config = _store_config(artifact_path=str(path))
        pipeline = SynthesisPipeline(config)
        pipeline.run(store_corpus)  # auto-saves to config.artifact_path
        daemon = pipeline.start_daemon(workers=2, queue_size=16, poll_seconds=0.05)
        try:
            before = daemon.autofill(FILL_BATCH).result(timeout=15)
            assert before.generation == 1
            first_fingerprint = daemon.generation.fingerprint
            assert first_fingerprint

            pipeline.refresh(_grow(store_corpus))  # auto-saves -> notify -> swap
            self._wait_for_generation(daemon, 2)
            assert daemon.generation.fingerprint != first_fingerprint

            after = daemon.autofill(FILL_BATCH).result(timeout=15)
            assert after.generation >= 2
            reference = MappingService.from_artifact(path)
            assert answers(after.responses) == answers(reference.autofill(FILL_BATCH))
            assert daemon.watcher.reloads >= 1
        finally:
            daemon.close()

    def test_each_publish_makes_exactly_one_reload(self, store_corpus, tmp_path):
        """One generation per artifact version, however many checks see it.

        ``await_generation`` checks the watcher itself while the publish hook
        wakes the watcher thread for its own check; both see the same new
        file, and only the first may load it.  An identical re-save is still
        a new version (the atomic rename gives the path a new inode).
        """
        from repro.store.artifact import load_artifact, save_artifact

        path = tmp_path / "served.artifact.gz"
        pipeline = SynthesisPipeline(_store_config())
        pipeline.run(store_corpus)
        pipeline.save_artifact(path)
        daemon = SynthesisDaemon.from_artifact(path, watch=True, workers=1)
        try:
            for step in range(5):
                if step == 2:
                    save_artifact(load_artifact(path), path)
                else:
                    pipeline.save_artifact(path)
                assert daemon.await_generation(step + 2, timeout=30) == step + 2
            time.sleep(0.6)  # room for any late deferred or polled check
            assert daemon.generation.number == 6
            assert daemon.watcher.reloads == 5
        finally:
            daemon.close()

    def test_version_published_during_startup_is_not_missed(
        self, store_corpus, tmp_path
    ):
        """A publish between load and watcher start must still be picked up."""
        from repro.serving import ArtifactWatcher

        path = tmp_path / "served.artifact.gz"
        pipeline = SynthesisPipeline(_store_config())
        pipeline.run(store_corpus)
        pipeline.save_artifact(path)
        baseline = ArtifactWatcher.signature_of(path)
        # Another process publishes while this one is still building its index.
        time.sleep(0.01)  # ensure a distinct mtime_ns
        pipeline.save_artifact(path)

        seen = []
        watcher = ArtifactWatcher(
            path, lambda artifact, p: seen.append(artifact), baseline=baseline
        )
        assert watcher.check_now() is True
        assert len(seen) == 1
        assert watcher.check_now() is False  # now up to date

    def test_failing_reload_callback_keeps_watcher_alive(
        self, store_corpus, tmp_path
    ):
        """A consumer that fails mid-swap is retried, not fatal to the watcher."""
        from repro.serving import ArtifactWatcher

        path = tmp_path / "served.artifact.gz"
        pipeline = SynthesisPipeline(_store_config())
        pipeline.run(store_corpus)
        pipeline.save_artifact(path)

        calls: list[Path] = []

        def flaky_consumer(artifact, artifact_path):
            calls.append(artifact_path)
            if len(calls) == 1:
                raise RuntimeError("service build failed")

        watcher = ArtifactWatcher(path, flaky_consumer, poll_seconds=0.05)
        assert watcher.check_now(force=True) is False  # consumer blew up
        assert watcher.callback_errors == 1
        assert watcher.reloads == 0
        assert watcher.check_now(force=True) is True  # retried and succeeded
        assert watcher.reloads == 1
        assert len(calls) == 2

    def test_damaged_artifact_is_never_swapped_in(self, store_corpus, tmp_path):
        path = tmp_path / "served.artifact.gz"
        config = _store_config(artifact_path=str(path))
        pipeline = SynthesisPipeline(config)
        pipeline.run(store_corpus)
        daemon = pipeline.start_daemon(workers=1, queue_size=16, poll_seconds=0.05)
        try:
            reference = answers(
                MappingService.from_artifact(path).autofill(FILL_BATCH)
            )
            # A foreign writer clobbers the file with garbage (no atomic-save
            # notify; the poller sees the mtime change, fails the checksum,
            # and keeps serving the last good generation).
            path.write_bytes(b"not an artifact at all")
            deadline = time.monotonic() + 15
            while daemon.watcher.skipped == 0:
                assert time.monotonic() < deadline, "watcher never polled the damage"
                time.sleep(0.01)
            assert daemon.generation.number == 1
            still = daemon.autofill(FILL_BATCH).result(timeout=15)
            assert answers(still.responses) == reference

            # A valid publish then recovers via the notify hook.
            pipeline.save_artifact(path)
            self._wait_for_generation(daemon, 2)
            recovered = daemon.autofill(FILL_BATCH).result(timeout=15)
            assert answers(recovered.responses) == reference
        finally:
            daemon.close()
