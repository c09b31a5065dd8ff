"""Golden schema tests for the health endpoints.

Operational dashboards and alert rules key on the exact field names that
``SynthesisDaemon.health()``, ``ArtifactWatcher.health()``,
``ClusterRouter.health()``, ``ReplicaServer.health()``, and the transport
snapshots emit.  These tests freeze those key sets: adding a field is a
deliberate one-line update here; renaming or dropping one fails loudly
instead of silently blinding a monitor.
"""

from __future__ import annotations

import pytest

from repro.cluster import ClusterRouter
from repro.core.config import SynthesisConfig
from repro.core.pipeline import SynthesisPipeline
from repro.net import TRANSPORT_HEALTH_KEYS
from repro.net.client import RemoteReplica
from repro.net.server import serve_shard
from repro.serving import SynthesisDaemon
from repro.serving.daemon import UNREACHABLE_DAEMON_HEALTH

pytestmark = pytest.mark.cluster

DAEMON_HEALTH_KEYS = {
    "status",
    "degraded_reasons",
    "generation",
    "source",
    "fingerprint",
    "queue_depth",
    "queue_size",
    "workers",
    "requests",
    "errors",
    "shed",
    "watcher",
    "transport",
    "deltas_applied",
    "last_delta_seq",
    "update_lag",
}

TRANSPORT_KEYS = {
    "kind",
    "connections",
    "frames_sent",
    "frames_received",
    "bytes_sent",
    "bytes_received",
    "reconnects",
    "rtt_ms_p50",
    "rtt_ms_p90",
}

REPLICA_SERVER_HEALTH_KEYS = {
    "status",
    "host",
    "port",
    "draining",
    "connections",
    "transport",
    "daemon",
}

WATCHER_HEALTH_KEYS = {
    "path",
    "reloads",
    "skipped",
    "callback_errors",
    "consecutive_failures",
    "last_swap_ok",
    "last_error",
    "pinned",
    "retry_in_seconds",
}

ROUTER_HEALTH_KEYS = {
    "status",
    "degraded_reasons",
    "transport",
    "num_shards",
    "replication",
    "generations",
    "replicas",
    "requests",
    "errors",
    "reroutes",
    "rollouts",
    "deltas_applied",
    "last_delta_seq",
    "update_lag",
}

ROUTER_REPLICA_KEYS = {
    "index",
    "shards",
    "closed",
    "served",
    "failed",
    "breaker",
    "daemon",
}


@pytest.fixture(scope="module")
def artifact_path(store_corpus, tmp_path_factory):
    config = SynthesisConfig(
        use_pmi_filter=False, min_domains=1, min_mapping_size=2, min_rows=4
    )
    pipeline = SynthesisPipeline(config)
    pipeline.run(store_corpus)
    return pipeline.save_artifact(tmp_path_factory.mktemp("health") / "a.gz")


def test_daemon_and_watcher_health_schema(artifact_path):
    with SynthesisDaemon.from_artifact(artifact_path, watch=True) as daemon:
        health = daemon.health()
        assert set(health) == DAEMON_HEALTH_KEYS
        assert set(health["watcher"]) == WATCHER_HEALTH_KEYS
        assert set(daemon.watcher.health()) == WATCHER_HEALTH_KEYS
        # The in-process daemon still advertises the transport schema (all
        # zeros) so dashboards need no per-transport key-set special case.
        assert set(health["transport"]) == TRANSPORT_KEYS
        assert health["transport"]["kind"] == "inproc"


def test_unreachable_view_is_the_daemon_key_set():
    # A replica that cannot be reached reports exactly the daemon's keys.
    assert set(UNREACHABLE_DAEMON_HEALTH) == DAEMON_HEALTH_KEYS


def test_transport_golden_matches_codec_constant():
    # The golden here and the constant the codec exports must be one set.
    assert TRANSPORT_KEYS == set(TRANSPORT_HEALTH_KEYS)


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_router_health_schema(artifact_path, tmp_path, transport):
    with ClusterRouter.from_artifact(
        artifact_path,
        num_shards=2,
        replication=2,
        shard_dir=tmp_path / "shards",
        watch=False,
        transport=transport,
    ) as router:
        health = router.health()
        assert set(health) == ROUTER_HEALTH_KEYS
        assert set(health["transport"]) == TRANSPORT_KEYS
        assert health["transport"]["kind"] == transport
        assert len(health["replicas"]) == 2
        for replica in health["replicas"]:
            assert set(replica) == ROUTER_REPLICA_KEYS
            # Each embedded daemon snapshot keeps the daemon schema too.
            assert set(replica["daemon"]) == DAEMON_HEALTH_KEYS
            assert set(replica["daemon"]["transport"]) == TRANSPORT_KEYS
        # A dead replica (over tcp: an unreachable server) keeps the schema.
        router.kill(1)
        dead = router.health()["replicas"][1]["daemon"]
        assert set(dead) == DAEMON_HEALTH_KEYS
        assert set(dead["transport"]) == TRANSPORT_KEYS


def test_replica_server_and_remote_client_health_schema(artifact_path):
    server = serve_shard(artifact_path, watch=False)
    try:
        health = server.health()
        assert set(health) == REPLICA_SERVER_HEALTH_KEYS
        assert set(health["transport"]) == TRANSPORT_KEYS
        assert health["transport"]["kind"] == "tcp"
        assert set(health["daemon"]) == DAEMON_HEALTH_KEYS
        with RemoteReplica("127.0.0.1", server.port) as client:
            # The router-facing view: daemon schema with the client's own
            # transport counters swapped in.
            remote = client.health()
            assert set(remote) == DAEMON_HEALTH_KEYS
            assert set(remote["transport"]) == TRANSPORT_KEYS
            assert remote["transport"]["kind"] == "tcp"
            assert set(client.server_health()) == REPLICA_SERVER_HEALTH_KEYS
    finally:
        server.close()
