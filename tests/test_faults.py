"""Chaos suite for the fault-tolerance layer (repro/faults + exec + serving).

Everything here runs against *deterministic* fault injection: a
:class:`FaultPlan` seed fully determines which dispatches crash workers,
which tasks raise, and which publishes are treated as failed or corrupt, so
every chaos scenario is replayable with ``REPRO_FAULT_SEED``.

The two load-bearing invariants (the PR's acceptance criteria):

* a pipeline run on ``process:2`` under injected worker crashes is
  **byte-identical** to the serial oracle — the recovery ladder (per-task
  retry, pool rebuild + re-dispatch of only the lost chunks, and past the
  budget the stage's own sequential path) never changes answers, only
  wall-clock;
* a daemon whose artifact path suffers repeated failed/corrupt publishes
  keeps serving the **pinned last-good generation**, reports the degradation
  through ``health()``, and recovers automatically on the next good publish.
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import BrokenExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.applications import FillRequest, MappingService, ServiceStats
from repro.core.binary_table import ValuePair
from repro.core.config import SynthesisConfig
from repro.core.mapping import MappingRelationship
from repro.core.pipeline import SynthesisPipeline
from repro.corpus.seeds import get_seed_relation
from repro.exec import FanOut, ProcessBackend
from repro.extraction.candidates import CandidateExtractor, _init_extract_worker
from repro.faults import (
    FAULT_SEED_ENV_VAR,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    InjectedFault,
    RetryPolicy,
    active_injector,
    injected_faults,
)
from repro.graph.build import GraphBuilder, _init_scoring_worker
from repro.serving import QueueFullError, SynthesisDaemon
from repro.store.format import ArtifactReader, ArtifactWriter, atomic_write_bytes

pytestmark = pytest.mark.faults


# ---------------------------------------------------------------------------------------
# Helpers (top-level so they pickle into process-pool workers)
# ---------------------------------------------------------------------------------------
def _square(x: int) -> int:
    return x * x


def _sum_block(block) -> int:
    return sum(block)


def _config(executor: str, **overrides) -> SynthesisConfig:
    # Same shape as the equivalence suite: PMI off + tiny thresholds keep the
    # fragment corpus productive and runs byte-comparable.
    return SynthesisConfig(
        executor=executor,
        use_pmi_filter=False,
        min_domains=1,
        min_mapping_size=2,
        min_rows=4,
        **overrides,
    )


def _canonical(result) -> str:
    """Byte-comparable form of a pipeline run (everything except timings)."""

    def mapping_repr(mapping):
        return (
            mapping.mapping_id,
            sorted((pair.left, pair.right) for pair in mapping.pairs),
            sorted(mapping.source_tables),
            sorted(mapping.domains),
        )

    return repr(
        (
            [mapping_repr(m) for m in result.mappings],
            [mapping_repr(m) for m in result.curated],
            [
                (c.table_id, c.source_table_id, [(p.left, p.right) for p in c.pairs])
                for c in result.candidates
            ],
            sorted(result.extraction_stats.items()),
        )
    )


def _answers(responses) -> list[tuple]:
    return [(r.kind, r.request_index, r.result, r.error) for r in responses]


def _seed_service() -> MappingService:
    relation = get_seed_relation("state_abbrev")
    mapping = MappingRelationship(
        mapping_id="state_abbrev",
        pairs=[ValuePair(left, right) for left, right in relation.pairs],
        domains={"seed"},
    )
    return MappingService([mapping])


GOOD_BATCH = [FillRequest(keys=("California", "Texas", "Ohio", "Washington"))]
#: Requests no handler understands: every one lands in its envelope's ``error``
#: (a malformed client request, answered without failing its batch).
BAD_BATCH = [object(), object(), object(), object()]


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------------------
# FaultPlan / FaultInjector
# ---------------------------------------------------------------------------------------
class TestFaultInjector:
    def test_same_seed_same_decisions(self):
        plan = FaultPlan(seed=1234, task_error_rate=0.4)
        first = [FaultInjector(plan).decide("site", 0.4) for _ in range(1)]
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        decisions_a = [a.decide("site", 0.4) for _ in range(64)]
        decisions_b = [b.decide("site", 0.4) for _ in range(64)]
        assert decisions_a == decisions_b
        assert first[0] == decisions_a[0]
        assert any(decisions_a) and not all(decisions_a)

    def test_sites_are_independent_streams(self):
        plan = FaultPlan(seed=7)
        injector = FaultInjector(plan)
        a = [injector.decide("alpha", 0.5) for _ in range(32)]
        b = [injector.decide("beta", 0.5) for _ in range(32)]
        assert a != b  # astronomically unlikely to collide if streams differ

    def test_zero_rate_never_fires_and_consumes_no_occurrences(self):
        plan = FaultPlan(seed=9, task_error_rate=0.0)
        injector = FaultInjector(plan)
        assert not any(injector.decide("site", 0.0) for _ in range(16))
        # The occurrence counter was untouched: the next real draw matches a
        # fresh injector's first draw.
        fresh = FaultInjector(plan)
        assert injector.decide("site", 0.7) == fresh.decide("site", 0.7)

    def test_rate_one_always_fires_until_max_faults(self):
        plan = FaultPlan(seed=2, worker_crash_rate=1.0, max_faults=3)
        injector = FaultInjector(plan)
        fired = [injector.worker_crash() for _ in range(10)]
        assert fired == [True, True, True] + [False] * 7
        assert injector.total_injected == 3

    def test_corrupt_is_deterministic_and_always_differs(self):
        plan = FaultPlan(seed=5)
        data = bytes(range(256)) * 4
        one = FaultInjector(plan).corrupt(data)
        two = FaultInjector(plan).corrupt(data)
        assert one == two
        assert one != data
        assert len(one) == len(data)

    def test_seed_comes_from_environment(self, monkeypatch):
        monkeypatch.setenv(FAULT_SEED_ENV_VAR, "424242")
        assert FaultPlan().seed == 424242
        monkeypatch.delenv(FAULT_SEED_ENV_VAR)
        assert isinstance(FaultPlan().seed, int)

    def test_injected_faults_scopes_and_restores(self):
        assert active_injector() is None
        with injected_faults(FaultPlan(seed=1)) as outer:
            assert active_injector() is outer
            with injected_faults(FaultPlan(seed=2)) as inner:
                assert active_injector() is inner
            assert active_injector() is outer
        assert active_injector() is None

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(worker_crash_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(task_error_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(max_faults=-1)

    def test_snapshot_is_json_able(self):
        injector = FaultInjector(FaultPlan(seed=3, task_error_rate=1.0, max_faults=1))
        injector.task_error()
        snapshot = json.loads(json.dumps(injector.snapshot()))
        assert snapshot["injected"]["task_error"] == 1


# ---------------------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------------------
class TestRetryPolicy:
    def test_delay_schedule_is_deterministic_and_capped(self):
        policy = RetryPolicy(
            attempts=6, base_seconds=0.1, max_seconds=0.5, multiplier=2.0, seed=11
        )
        delays = list(policy.delays())
        assert delays == list(RetryPolicy(
            attempts=6, base_seconds=0.1, max_seconds=0.5, multiplier=2.0, seed=11
        ).delays())
        assert len(delays) == 6
        assert all(0 < d <= 0.5 for d in delays)
        # The uncapped prefix grows geometrically (modulo +/-10% jitter).
        assert delays[1] > delays[0]

    def test_retry_on_filter(self):
        policy = RetryPolicy(retry_on=(InjectedFault, OSError))
        assert policy.retries(InjectedFault("x"))
        assert policy.retries(OSError("x"))
        assert not policy.retries(ValueError("x"))

    def test_call_retries_then_succeeds(self):
        policy = RetryPolicy(attempts=3, base_seconds=0.2, max_seconds=1.0, seed=4)
        sleeps: list[float] = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] <= 2:
                raise OSError("transient")
            return "ok"

        assert policy.call(flaky, sleep=sleeps.append) == "ok"
        assert calls["n"] == 3
        assert sleeps == [policy.delay(1), policy.delay(2)]

    def test_call_exhausts_budget(self):
        policy = RetryPolicy(attempts=2, base_seconds=0.0)

        def always():
            raise OSError("still down")

        with pytest.raises(OSError):
            policy.call(always, sleep=lambda _s: None)

    def test_uncovered_exception_is_not_retried(self):
        policy = RetryPolicy(attempts=5, retry_on=(OSError,))
        calls = {"n": 0}

        def boom():
            calls["n"] += 1
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            policy.call(boom, sleep=lambda _s: None)
        assert calls["n"] == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)


# ---------------------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------------------
class TestCircuitBreaker:
    def _breaker(self, clock, **overrides):
        kwargs = dict(
            error_threshold=0.5, min_requests=4, cooldown_seconds=10.0, clock=clock
        )
        kwargs.update(overrides)
        return CircuitBreaker(**kwargs)

    def test_threshold_must_be_a_positive_rate(self):
        # There is no disabled mode: a breaker that exists can trip.
        for threshold in (0.0, -0.5):
            with pytest.raises(ValueError, match="must be in"):
                CircuitBreaker(error_threshold=threshold)

    def test_no_trip_below_volume(self):
        breaker = self._breaker(_FakeClock())
        assert breaker.record(0, 3) is False  # 3 errors < min_requests
        assert breaker.state == "closed"

    def test_trips_at_error_rate_and_rejects(self):
        clock = _FakeClock()
        breaker = self._breaker(clock)
        assert breaker.record(2, 2) is True  # 4 requests, 50% errors
        assert breaker.state == "open"
        assert not breaker.allow()
        assert not breaker.allow()
        snapshot = breaker.snapshot()
        assert snapshot["state"] == "open"
        assert snapshot["rejections"] == 2
        assert snapshot["opened_count"] == 1
        json.dumps(snapshot)

    def test_half_open_probe_success_closes(self):
        clock = _FakeClock()
        breaker = self._breaker(clock)
        breaker.record(0, 4)
        clock.advance(10.1)
        assert breaker.state == "half-open"
        assert breaker.allow()  # the single probe
        assert not breaker.allow()  # a second concurrent batch is rejected
        assert breaker.record(8, 0) is False  # clean probe
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_half_open_probe_failure_reopens(self):
        clock = _FakeClock()
        breaker = self._breaker(clock)
        breaker.record(0, 4)
        clock.advance(10.1)
        assert breaker.allow()
        assert breaker.record(0, 4) is True  # probe errored: trip again
        assert breaker.state == "open"
        assert not breaker.allow()
        # ...and the next cooldown admits another probe.
        clock.advance(10.1)
        assert breaker.allow()

    def test_window_slides(self):
        clock = _FakeClock()
        breaker = self._breaker(clock, min_requests=4, window=8)
        breaker.record(0, 2)  # 2 errors
        breaker.record(20, 0)  # flushed past the 8-slot window
        assert breaker.state == "closed"

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(error_threshold=1.5)
        with pytest.raises(ValueError):
            CircuitBreaker(min_requests=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_seconds=-1)
        with pytest.raises(ValueError):
            CircuitBreaker(min_requests=10, window=5)


# ---------------------------------------------------------------------------------------
# Resilient execution backends
# ---------------------------------------------------------------------------------------
FAST_RETRY = RetryPolicy(
    attempts=2, base_seconds=0.001, max_seconds=0.01, retry_on=(InjectedFault, OSError)
)


class TestResilientBackends:
    ITEMS = list(range(24))
    EXPECTED = [x * x for x in ITEMS]

    def test_serial_spec_builds_no_pool_to_inject_into(self, store_corpus):
        oracle, _ = CandidateExtractor(_config("serial")).extract(store_corpus)
        with injected_faults(FaultPlan(seed=1, task_error_rate=1.0)) as injector:
            candidates, _ = CandidateExtractor(_config("serial")).extract(store_corpus)
        assert injector.total_injected == 0
        assert [c.table_id for c in candidates] == [c.table_id for c in oracle]

    def test_process_backend_retries_injected_task_errors(self):
        plan = FaultPlan(seed=13, task_error_rate=1.0, max_faults=2)
        with injected_faults(plan) as injector:
            with ProcessBackend(2, retry_policy=FAST_RETRY) as backend:
                assert backend.map_blocks(_square, self.ITEMS) == self.EXPECTED
                assert backend.tasks_retried == 2
                assert backend.faults_injected == 2
                assert backend.fallback_reason is None
            assert injector.total_injected == 2

    def test_slow_calls_change_nothing_but_wall_clock(self):
        plan = FaultPlan(
            seed=23, slow_call_rate=0.5, slow_call_seconds=0.001, max_faults=8
        )
        with injected_faults(plan):
            with ProcessBackend(2) as backend:
                assert backend.map_blocks(_square, self.ITEMS) == self.EXPECTED

    def test_process_backend_survives_a_worker_crash(self):
        plan = FaultPlan(seed=29, worker_crash_rate=1.0, max_faults=1)
        with injected_faults(plan):
            with ProcessBackend(2, retry_policy=FAST_RETRY) as backend:
                blocks = [self.ITEMS[:8], self.ITEMS[8:16], self.ITEMS[16:]]
                assert backend.map_blocks(_sum_block, blocks) == [
                    sum(b) for b in blocks
                ]
                assert backend.crash_recoveries == 1
                assert backend.fallback_reason is None

    def test_process_backend_raises_past_the_budget(self):
        # Every dispatch crashes its worker; after the rebuild budget the
        # backend must give up and say why, and a FanOut turns that into the
        # stage's sequential fallback.
        plan = FaultPlan(seed=31, worker_crash_rate=1.0)
        blocks = [self.ITEMS[:12], self.ITEMS[12:]]
        with injected_faults(plan):
            with ProcessBackend(2, retry_policy=FAST_RETRY) as backend:
                with pytest.raises(BrokenExecutor, match="retry budget"):
                    backend.map_blocks(_sum_block, blocks)
                assert backend.crash_recoveries == FAST_RETRY.attempts
                assert "retry budget" in backend.fallback_reason
            fan = FanOut("process:2", retry_policy=FAST_RETRY)
            with fan.session():
                assert fan.run_blocks(_sum_block, blocks) is None
        assert fan.fallback
        assert "retry budget" in fan.fallback_reason

    def test_single_task_retry_is_counted_once(self):
        plan = FaultPlan(seed=37, task_error_rate=1.0, max_faults=1)
        with injected_faults(plan):
            with ProcessBackend(2, retry_policy=FAST_RETRY) as backend:
                assert backend.map_blocks(_square, [9]) == [81]
                assert backend.tasks_retried == 1


# ---------------------------------------------------------------------------------------
# Acceptance: chaos-equivalence of the full pipeline
# ---------------------------------------------------------------------------------------
@pytest.fixture(scope="module")
def serial_oracle(store_corpus):
    result = SynthesisPipeline(_config("serial")).run(store_corpus)
    return _canonical(result)


@pytest.mark.parametrize("seed", (11, 97, 20260808))
def test_pipeline_under_worker_crashes_is_byte_identical(
    seed, store_corpus, serial_oracle
):
    """The PR's headline invariant: crashes cost retries, never answers."""
    plan = FaultPlan(seed=seed, worker_crash_rate=0.2)
    with injected_faults(plan):
        result = SynthesisPipeline(_config("process:2")).run(store_corpus)
    assert _canonical(result) == serial_oracle
    

def test_pipeline_under_task_errors_is_byte_identical(store_corpus, serial_oracle):
    plan = FaultPlan(
        seed=41,
        task_error_rate=1.0,
        max_faults=2,  # <= retry attempts: no task can exhaust its budget
        slow_call_rate=0.2,
        slow_call_seconds=0.0005,
    )
    with injected_faults(plan):
        result = SynthesisPipeline(_config("process:2")).run(store_corpus)
    assert _canonical(result) == serial_oracle


_PID_LOG_ENV = "_REPRO_TEST_INITIALIZER_PIDS"


def _log_initializer_pid() -> None:
    # The log path travels in the environment, which both fork and spawn
    # workers inherit.
    with open(os.environ[_PID_LOG_ENV], "a") as log:
        log.write(f"{os.getpid()}\n")


def _logged_scoring_init(*args) -> None:
    _log_initializer_pid()
    _init_scoring_worker(*args)


def _logged_extract_init(*args) -> None:
    _log_initializer_pid()
    _init_extract_worker(*args)


@pytest.fixture
def initializer_pids(tmp_path, monkeypatch):
    """Log the pid of every process that runs a stage's worker initializer;
    returns a reader of the pids logged so far."""
    from repro.extraction import candidates as candidates_module
    from repro.graph import build as build_module

    log = tmp_path / "initializer-pids.txt"
    log.touch()
    monkeypatch.setenv(_PID_LOG_ENV, str(log))
    monkeypatch.setattr(build_module, "_init_scoring_worker", _logged_scoring_init)
    monkeypatch.setattr(candidates_module, "_init_extract_worker", _logged_extract_init)
    return lambda: {int(line) for line in log.read_text().split()}


def test_degraded_pipeline_leaves_no_worker_state_behind(
    store_corpus, serial_oracle, initializer_pids
):
    """Past the retry budget every stage falls back to its own sequential
    path: the whole run equals the serial oracle, and no worker initializer
    ran in this process or left state in its modules."""
    from repro.extraction import candidates
    from repro.graph import build

    plan = FaultPlan(seed=2, worker_crash_rate=1.0)
    with injected_faults(plan) as injector:
        result = SynthesisPipeline(
            _config("process:2", retry_attempts=1, retry_backoff_seconds=0.001)
        ).run(store_corpus)
    assert injector.injected.get("worker_crash", 0) > 0
    assert _canonical(result) == serial_oracle
    assert os.getpid() not in initializer_pids()
    assert build._WORKER_SCORER is None
    assert build._WORKER_PROFILES == []
    assert candidates._EXTRACT_CONFIG is None
    assert candidates._EXTRACT_INDEX is None


@pytest.mark.parametrize("stage", ["graph", "extraction"])
def test_caller_never_runs_a_worker_initializer(stage, store_corpus, initializer_pids):
    """Past the retry budget a stage falls back to its own sequential path:
    the worker initializer runs in pool workers only, never in the caller."""
    degraded = _config("process:2", retry_attempts=1, retry_backoff_seconds=0.001)
    oracle, oracle_stats = CandidateExtractor(_config("serial")).extract(store_corpus)
    with injected_faults(FaultPlan(seed=2, worker_crash_rate=1.0)) as injector:
        if stage == "graph":
            builder = GraphBuilder(degraded)
            graph = builder.build(oracle)
            fell_back = builder.last_build_stats.parallel_fallback
        else:
            extractor = CandidateExtractor(degraded)
            candidates, stats = extractor.extract(store_corpus)
            fell_back = extractor.last_parallel_fallback
    assert injector.injected.get("worker_crash", 0) > 0
    assert os.getpid() not in initializer_pids()
    assert fell_back is True
    if stage == "graph":
        expected = GraphBuilder(_config("serial")).build(oracle)
        assert graph.positive_edges == expected.positive_edges
        assert graph.negative_edges == expected.negative_edges
    else:

        def canonical(tables):
            return [
                (c.table_id, c.source_table_id, [(p.left, p.right) for p in c.pairs])
                for c in tables
            ]

        assert canonical(candidates) == canonical(oracle)
        assert stats == oracle_stats


def test_concurrent_degraded_builds_each_match_their_oracle(store_corpus):
    """Guard: two builds that fall back at once in one process share no state."""
    candidates, _ = CandidateExtractor(_config("serial")).extract(store_corpus)
    halves = [candidates[0::2], candidates[1::2]]
    oracles = [GraphBuilder(_config("serial")).build(half) for half in halves]
    degraded = _config("process:2", retry_attempts=1, retry_backoff_seconds=0.001)
    graphs: list = [None, None]
    fell_back: list = [None, None]
    errors: list[BaseException] = []

    def build(slot: int) -> None:
        try:
            builder = GraphBuilder(degraded)
            graphs[slot] = builder.build(halves[slot])
            fell_back[slot] = builder.last_build_stats.parallel_fallback
        except BaseException as exc:  # pragma: no cover - surfaced below
            errors.append(exc)

    with injected_faults(FaultPlan(seed=3, worker_crash_rate=1.0)):
        threads = [threading.Thread(target=build, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    assert not errors
    assert fell_back == [True, True]
    for graph, oracle in zip(graphs, oracles):
        assert graph.positive_edges == oracle.positive_edges
        assert graph.negative_edges == oracle.negative_edges


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_pipeline_property_faulty_pool_equals_serial(
    seed, store_corpus, serial_oracle
):
    plan = FaultPlan(seed=seed, task_error_rate=1.0, max_faults=2)
    with injected_faults(plan):
        result = SynthesisPipeline(_config("process:2")).run(store_corpus)
    assert _canonical(result) == serial_oracle


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    error_rate=st.floats(min_value=0.0, max_value=1.0),
    slow_rate=st.floats(min_value=0.0, max_value=0.5),
)
def test_backend_map_property_matches_plain_python(seed, error_rate, slow_rate):
    items = list(range(16))
    expected = [x * x for x in items]
    plan = FaultPlan(
        seed=seed,
        task_error_rate=error_rate,
        slow_call_rate=slow_rate,
        slow_call_seconds=0.0002,
        max_faults=2,
    )
    with injected_faults(plan):
        with ProcessBackend(2, retry_policy=FAST_RETRY) as backend:
            assert backend.map_blocks(_square, items) == expected


class TestConfigRetryBudgetReachesPools:
    """``SynthesisConfig.retry_attempts`` is the budget the pipeline's pools use.

    One injected task error against a budget of zero retries must push the
    stage onto its serial fallback; a budget of one absorbs it in the pool.
    Either way the output equals the serial oracle.
    """

    @pytest.mark.parametrize(("attempts", "falls_back"), [(0, True), (1, False)])
    def test_graph_builder_honours_the_budget(self, store_corpus, attempts, falls_back):
        candidates, _ = CandidateExtractor(_config("serial")).extract(store_corpus)
        oracle = GraphBuilder(_config("serial")).build(candidates)
        builder = GraphBuilder(_config("process:2", retry_attempts=attempts))
        plan = FaultPlan(seed=43, task_error_rate=1.0, max_faults=1)
        with injected_faults(plan) as injector:
            graph = builder.build(candidates)
        assert injector.total_injected == 1
        assert builder.last_build_stats.parallel_fallback is falls_back
        assert graph.positive_edges == oracle.positive_edges
        assert graph.negative_edges == oracle.negative_edges

    @pytest.mark.parametrize(("attempts", "falls_back"), [(0, True), (1, False)])
    def test_extraction_honours_the_budget(self, store_corpus, attempts, falls_back):
        oracle, _ = CandidateExtractor(_config("serial")).extract(store_corpus)
        extractor = CandidateExtractor(_config("process:2", retry_attempts=attempts))
        plan = FaultPlan(seed=43, task_error_rate=1.0, max_faults=1)
        with injected_faults(plan) as injector:
            candidates, _ = extractor.extract(store_corpus)
        assert injector.total_injected == 1
        assert extractor.last_parallel_fallback is falls_back
        assert [c.table_id for c in candidates] == [c.table_id for c in oracle]


# ---------------------------------------------------------------------------------------
# ServiceStats shed-load counters
# ---------------------------------------------------------------------------------------
class TestShedCounters:
    def test_bump_and_as_dict(self):
        stats = ServiceStats()
        assert stats.bump("rejected") == 1
        assert stats.bump("expired", 2) == 2
        assert stats.as_dict()["shed"] == {"rejected": 1, "expired": 2}

    def test_bump_rejects_unknown_counter(self):
        for counter in ("latency", "retried", "breaker_opened"):
            with pytest.raises(ValueError):
                ServiceStats().bump(counter)


# ---------------------------------------------------------------------------------------
# Daemon shed-load behavior
# ---------------------------------------------------------------------------------------
class TestDaemonShedLoad:
    def test_bad_requests_never_block_good_batches(self):
        daemon = SynthesisDaemon(_seed_service(), workers=1)
        try:
            # One client's malformed requests, 100% errors at any volume...
            for _ in range(5):
                result = daemon.submit("autofill", BAD_BATCH).result(timeout=15)
                assert not any(r.ok for r in result.responses)
            # ...are its own: every other client's batch still serves.
            result = daemon.submit("autofill", GOOD_BATCH).result(timeout=15)
            assert all(r.ok for r in result.responses)
            health = daemon.health()
            assert health["status"] == "ok"
            assert health["errors"] == {"autofill": 20}
            assert "breaker" not in health
        finally:
            daemon.close()

    def test_full_queue_is_shed_and_counted(self):
        class _GatedService(MappingService):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.gate = threading.Event()

            def _serve_batch(self, kind, requests, handler):
                self.gate.wait(15)
                return super()._serve_batch(kind, requests, handler)

        relation = get_seed_relation("state_abbrev")
        mapping = MappingRelationship(
            mapping_id="state_abbrev",
            pairs=[ValuePair(left, right) for left, right in relation.pairs],
            domains={"seed"},
        )
        service = _GatedService([mapping])
        daemon = SynthesisDaemon(service, workers=1, queue_size=1)
        try:
            first = daemon.submit("autofill", GOOD_BATCH)  # occupies the worker
            time.sleep(0.05)
            second = daemon.submit("autofill", GOOD_BATCH)  # fills the queue
            with pytest.raises(QueueFullError) as excinfo:
                daemon.submit("autofill", GOOD_BATCH)
            assert "1 batch(es) rejected" in str(excinfo.value)
            assert daemon.stats.rejected == 1
            assert daemon.health()["shed"] == {"rejected": 1, "expired": 0}

            service.gate.set()
            for ticket in (first, second):
                result = ticket.result(timeout=15)
                assert all(r.ok for r in result.responses)
            third = daemon.submit("autofill", GOOD_BATCH).result(timeout=15)
            assert all(r.ok for r in third.responses)
        finally:
            service.gate.set()
            daemon.close()


# ---------------------------------------------------------------------------------------
# Acceptance: watcher pinning under publish storms
# ---------------------------------------------------------------------------------------
WATCH_RETRY = RetryPolicy(attempts=2, base_seconds=0.001, max_seconds=0.01)


class TestWatcherDegradation:
    def _serve_and_check(self, daemon, reference):
        result = daemon.submit("autofill", GOOD_BATCH).result(timeout=15)
        assert _answers(result.responses) == reference
        return result

    def _start(self, store_corpus, tmp_path):
        path = tmp_path / "served.artifact.gz"
        pipeline = SynthesisPipeline(_config("serial", artifact_path=str(path)))
        pipeline.run(store_corpus)  # auto-saves to artifact_path
        daemon = SynthesisDaemon.from_artifact(
            path,
            config=_config("serial"),
            workers=1,
            poll_seconds=60.0,  # the tests drive check_now() deterministically
            retry_policy=WATCH_RETRY,
        )
        reference = _answers(
            MappingService.from_artifact(path).autofill(GOOD_BATCH)
        )
        return path, pipeline, daemon, reference

    def test_publish_failure_storm_pins_last_good_generation(
        self, store_corpus, tmp_path
    ):
        path, pipeline, daemon, reference = self._start(store_corpus, tmp_path)
        try:
            assert daemon.generation.number == 1
            with injected_faults(FaultPlan(seed=3, publish_failure_rate=1.0)):
                for _ in range(3):  # >= 3 consecutive failed publishes
                    time.sleep(0.01)  # distinct mtime_ns
                    pipeline.save_artifact(path)
                    assert daemon.watcher.check_now(force=True) is False
                # Still serving generation 1, and saying so.
                result = self._serve_and_check(daemon, reference)
                assert result.generation == 1
                health = daemon.health()
                assert health["status"] == "degraded"
                assert health["watcher"]["consecutive_failures"] >= 3
                assert health["watcher"]["pinned"] is True
                assert health["watcher"]["last_swap_ok"] is False
                assert "injected publish failure" in health["watcher"]["last_error"]
                json.dumps(health)

            # Chaos over: the next good publish recovers automatically.
            time.sleep(0.01)
            pipeline.save_artifact(path)
            assert daemon.watcher.check_now(force=True) is True
            deadline = time.monotonic() + 5
            while daemon.generation.number < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            assert daemon.generation.number >= 2
            health = daemon.health()
            assert health["watcher"]["pinned"] is False
            assert health["watcher"]["consecutive_failures"] == 0
            assert health["status"] == "ok"
            self._serve_and_check(daemon, reference)
        finally:
            daemon.close()

    def test_corrupt_publish_storm_never_serves_mixed_bytes(
        self, store_corpus, tmp_path
    ):
        path, pipeline, daemon, reference = self._start(store_corpus, tmp_path)
        try:
            with injected_faults(FaultPlan(seed=8, corrupt_publish_rate=1.0)):
                for _ in range(4):
                    time.sleep(0.01)
                    pipeline.save_artifact(path)
                    assert daemon.watcher.check_now(force=True) is False
                    # Every batch between failed swaps is served wholly by the
                    # pinned generation — answers and tag agree.
                    result = self._serve_and_check(daemon, reference)
                    assert result.generation == 1
            assert daemon.watcher.skipped >= 4
            assert daemon.health()["watcher"]["pinned"] is True
        finally:
            daemon.close()


# ---------------------------------------------------------------------------------------
# Store durability + health plumbing
# ---------------------------------------------------------------------------------------
class TestDurability:
    def test_atomic_write_fsyncs_file_and_directory(self, tmp_path, monkeypatch):
        synced: list[int] = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            synced.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        path = tmp_path / "payload.bin"
        assert atomic_write_bytes(path, b"payload") == path
        assert path.read_bytes() == b"payload"
        # One fsync for the temp file's bytes, one for the directory entry.
        assert len(synced) >= 2
        assert not list(tmp_path.glob("*.tmp"))

    def test_artifact_writer_commit_is_durable_and_verifiable(
        self, tmp_path, monkeypatch
    ):
        synced: list[int] = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
        )
        path = tmp_path / "artifact.bin"
        writer = ArtifactWriter(path)
        writer.add("meta", b'{"k": 1}', codec="json")
        writer.commit()
        assert len(synced) >= 2
        ArtifactReader(path.read_bytes(), source=str(path)).verify()

    def test_fsync_failure_on_directory_is_tolerated(self, tmp_path, monkeypatch):
        real_fsync = os.fsync
        seen = {"n": 0}

        def flaky_fsync(fd):
            seen["n"] += 1
            if seen["n"] > 1:  # the directory fsync (not supported everywhere)
                raise OSError("fsync on directories unsupported")
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", flaky_fsync)
        path = tmp_path / "payload.bin"
        atomic_write_bytes(path, b"data")
        assert path.read_bytes() == b"data"
