"""Property tests: 3-shard cluster answers ≡ synchronous MappingService answers.

Hypothesis generates arbitrary programs of :class:`FillRequest` /
:class:`JoinRequest` / :class:`CorrectRequest` batches — valid, junk-valued,
and malformed alike — and pushes them through a live 3-shard
:class:`ClusterRouter` (replication 2), from one client and from racing
client threads, across rolling artifact rollouts published under a
deterministic :class:`FaultPlan` (injected publish failures exercise the
watcher's retry path mid-roll), and with one replica killed mid-stream.
Every batch's envelopes must be byte-identical (same ``repr``) to a direct
synchronous :class:`MappingService` call over the full artifact.

The whole module runs once per transport: ``inproc`` replicas (daemons in
this process) and ``tcp`` replicas (one :mod:`repro.net.server` subprocess
each, reached through framed sockets).  The oracle, the programs, and every
assertion are transport-blind — that is the cluster's wire-level serving
contract.  The chaos differs per transport only because fault injection is
process-local: the inproc roll injects watcher publish failures, the tcp
roll injects connection resets / torn frames / network stalls at the client
sockets (faults in the router process cannot reach a subprocess watcher).
"""

from __future__ import annotations

import inspect
import os
import string
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.applications import (
    CorrectRequest,
    FillRequest,
    JoinRequest,
    MappingService,
)
from repro.cluster import ClusterRouter, Replica
from repro.core.config import SynthesisConfig
from repro.core.pipeline import SynthesisPipeline
from repro.corpus.seeds import get_seed_relation
from repro.faults import FaultPlan, injected_faults

pytestmark = pytest.mark.cluster

#: Pinned by the chaos CI leg (REPRO_FAULT_SEED) so every injected publish
#: failure during the rolling-rollout property is reproducible.
FAULT_SEED = int(os.environ.get("REPRO_FAULT_SEED", "20260808"))

TRANSPORTS = ("inproc", "tcp")


def chaos_plan(transport: str) -> FaultPlan:
    """The rolling-rollout fault plan for one transport.

    Injection is process-local, so each transport gets the chaos that can
    actually reach it: inproc replicas share the router's process (watcher
    publish failures land), tcp replicas live in subprocesses (only the
    client-side socket sites — resets, torn frames, stalls — land).
    """
    if transport == "inproc":
        return FaultPlan(seed=FAULT_SEED, publish_failure_rate=0.25)
    return FaultPlan(
        seed=FAULT_SEED,
        conn_reset_rate=0.05,
        torn_frame_rate=0.05,
        slow_network_rate=0.10,
        slow_network_seconds=0.005,
        max_faults=6,
    )

# ---------------------------------------------------------------------------------------
# Strategies (mirrors test_daemon_properties.py: same shapes, same junk)
# ---------------------------------------------------------------------------------------
_SEED_VALUES = tuple(
    value
    for relation in ("state_abbrev", "country_iso3")
    for left, right in get_seed_relation(relation).pairs
    for value in (left, right)
)

values = st.one_of(
    st.sampled_from(_SEED_VALUES),
    st.text(alphabet=string.ascii_letters + " -.", min_size=0, max_size=10),
)

fill_requests = st.builds(
    FillRequest,
    keys=st.lists(values, max_size=6).map(tuple),
    # Out-of-range example rows must error identically through the router.
    examples=st.none() | st.dictionaries(st.integers(-1, 8), values, max_size=2),
)
join_requests = st.builds(
    JoinRequest,
    left_keys=st.lists(values, max_size=5).map(tuple),
    right_keys=st.lists(values, max_size=5).map(tuple),
)
correct_requests = st.builds(
    CorrectRequest, values=st.lists(values, max_size=8).map(tuple)
)

envelopes = st.one_of(
    st.tuples(st.just("autofill"), st.lists(fill_requests, max_size=3)),
    st.tuples(st.just("autojoin"), st.lists(join_requests, max_size=3)),
    st.tuples(st.just("autocorrect"), st.lists(correct_requests, max_size=3)),
)
programs = st.lists(envelopes, min_size=1, max_size=6)


def canonical(responses) -> str:
    """Byte-comparable form of a batch: everything except timing."""
    return repr([(r.kind, r.request_index, r.result, r.error) for r in responses])


# ---------------------------------------------------------------------------------------
# Fixtures: one artifact, one router, one sync oracle for the whole module
# ---------------------------------------------------------------------------------------
@pytest.fixture(scope="module")
def served_artifact_path(store_corpus, tmp_path_factory):
    config = SynthesisConfig(
        use_pmi_filter=False, min_domains=1, min_mapping_size=2, min_rows=4
    )
    pipeline = SynthesisPipeline(config)
    pipeline.run(store_corpus)
    return pipeline.save_artifact(tmp_path_factory.mktemp("cluster-props") / "a.gz")


@pytest.fixture(scope="module")
def oracle(served_artifact_path) -> MappingService:
    return MappingService.from_artifact(served_artifact_path)


@pytest.fixture(scope="module", params=TRANSPORTS)
def transport(request) -> str:
    """Run the whole module once per transport (inproc and tcp replicas)."""
    return request.param


@pytest.fixture(scope="module")
def router(served_artifact_path, tmp_path_factory, transport):
    router = ClusterRouter.from_artifact(
        served_artifact_path,
        num_shards=3,
        replication=2,
        shard_dir=tmp_path_factory.mktemp(f"cluster-props-shards-{transport}"),
        watch=False,
        workers=2,
        transport=transport,
    )
    yield router
    router.close()


# ---------------------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------------------
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(program=programs)
def test_cluster_program_equals_oracle(program, router, oracle):
    """Any request program through the cluster returns the oracle's answers."""
    for kind, batch in program:
        assert canonical(router.serve(kind, batch)) == canonical(
            getattr(oracle, kind)(batch)
        )


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(program=programs)
def test_threaded_cluster_clients_equal_oracle(program, router, oracle):
    """Batches racing from many client threads change nothing."""
    with ThreadPoolExecutor(max_workers=4) as clients:
        handles = [
            clients.submit(router.serve, kind, batch) for kind, batch in program
        ]
        responses = [handle.result(timeout=60) for handle in handles]
    for (kind, batch), got in zip(program, responses):
        assert canonical(got) == canonical(getattr(oracle, kind)(batch))


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(program=programs, roll_after=st.integers(0, 5))
def test_rolling_rollout_of_same_artifact_is_invisible(
    program, roll_after, rolling_router, served_artifact_path, oracle
):
    """A mid-program rolling rollout never changes any answer.

    Each replica's generation advances one at a time, under deterministically
    injected publish failures (the watcher retries past them), and every
    envelope before, during, and after the roll matches the sync oracle.
    """
    split = roll_after % (len(program) + 1)
    for kind, batch in program[:split]:
        assert canonical(rolling_router.serve(kind, batch)) == canonical(
            getattr(oracle, kind)(batch)
        )
    before = rolling_router.health()["generations"]
    with injected_faults(chaos_plan(rolling_router.transport)):
        after = rolling_router.rollout(served_artifact_path, timeout=60)
        assert all(new > old for new, old in zip(after, before))
        # Over tcp the socket faults land on the serve path, not the roll:
        # a post-roll slice served *inside* the chaos window must survive
        # injected resets / torn frames / stalls via breaker-guided retry.
        for kind, batch in program[split:]:
            assert canonical(rolling_router.serve(kind, batch)) == canonical(
                getattr(oracle, kind)(batch)
            )
    for kind, batch in program[split:]:
        assert canonical(rolling_router.serve(kind, batch)) == canonical(
            getattr(oracle, kind)(batch)
        )


def test_replicas_implement_the_replica_protocol(router):
    """Inproc daemons and tcp clients both take every Replica call as declared,
    and ``submit`` takes nothing else: a parameter only one transport honours
    cannot creep back in."""
    for replica in router.replicas:
        assert isinstance(replica.daemon, Replica)
        for name in ("submit", "apply_delta", "await_generation", "health", "close"):
            declared = inspect.signature(getattr(Replica, name)).parameters
            actual = inspect.signature(getattr(type(replica.daemon), name)).parameters
            for param in declared.values():
                assert param.name in actual, (type(replica.daemon), name, param)
                assert actual[param.name].kind == param.kind
            if name == "submit":
                assert list(actual) == list(declared), type(replica.daemon)


def test_rollout_without_watchers_recuts_and_does_not_wait(
    router, served_artifact_path, oracle
):
    """Replicas started with ``watch=False`` get their shard files re-cut and
    are not waited on: a rollout with no time to wait still returns."""
    shard_files = sorted(router.shard_dir.iterdir())
    assert len(shard_files) == len(router.replicas)
    for path in shard_files:
        os.utime(path, ns=(0, 0))
    generations = router.rollout(served_artifact_path, timeout=0.0)
    assert generations == [1] * len(router.replicas)
    assert all(path.stat().st_mtime_ns > 0 for path in shard_files)
    batch = [FillRequest(keys=("California", "Texas"))]
    assert canonical(router.autofill(batch)) == canonical(oracle.autofill(batch))


@pytest.fixture(scope="module")
def rolling_router(served_artifact_path, tmp_path_factory, transport):
    router = ClusterRouter.from_artifact(
        served_artifact_path,
        num_shards=3,
        replication=2,
        shard_dir=tmp_path_factory.mktemp(f"cluster-props-rolling-{transport}"),
        watch=True,
        poll_seconds=0.05,
        workers=2,
        transport=transport,
        # Socket chaos opens breakers; a short cooldown keeps a healthy
        # cover reachable within one retry schedule.
        breaker_cooldown=0.1,
    )
    yield router
    router.close()


def test_one_replica_killed_mid_stream_changes_nothing(
    served_artifact_path, oracle, tmp_path, transport
):
    """Killing a replica mid-program: replication 2 still covers every shard.

    Directed rather than hypothesis-driven because the kill is one-way state;
    the program mixes every kind plus malformed requests either side of it.
    Over tcp the kill takes the replica's server process down with it, so
    failover is exercised against real dead sockets.
    """
    program = [
        ("autofill", [
            FillRequest(keys=("California", "Texas", "Ohio")),
            FillRequest(keys=("California",), examples={9: "CA"}),
        ]),
        ("autojoin", [
            JoinRequest(left_keys=("California", "Texas"), right_keys=("TX", "CA")),
        ]),
        ("autocorrect", [
            CorrectRequest(values=("California", "Washington", "CA", "junk")),
        ]),
    ]
    router = ClusterRouter.from_artifact(
        served_artifact_path,
        num_shards=3,
        replication=2,
        shard_dir=tmp_path / "shards",
        watch=False,
        workers=2,
        transport=transport,
    )
    with router:
        for kind, batch in program:
            assert canonical(router.serve(kind, batch)) == canonical(
                getattr(oracle, kind)(batch)
            )
        router.kill(0)
        router.kill(0)  # idempotent: a second kill is a silent no-op
        if transport == "tcp":
            # The replica owned its server process; the kill reaped it.
            assert router.replicas[0].daemon.process.returncode is not None
        for kind, batch in program:
            assert canonical(router.serve(kind, batch)) == canonical(
                getattr(oracle, kind)(batch)
            )
        health = router.health()
        assert health["status"] == "degraded"
        assert any("replica 0" in reason for reason in health["degraded_reasons"])
    router.close()  # double close (after __exit__) must be a no-op too
