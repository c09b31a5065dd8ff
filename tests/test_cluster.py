"""Unit tests for the sharded serving cluster (:mod:`repro.cluster`).

Covers the deterministic :class:`HashRing`, per-replica artifact cutting
(including verbatim v2 section reuse and serving-slice exactness), the
``cluster_lookup`` request kind, the :class:`ClusterRouter`'s scatter-gather
equivalence / failover / rolling rollout.  The hypothesis program-equivalence
suite lives in ``tests/test_cluster_properties.py``.
"""

from __future__ import annotations

import time

import pytest

from repro.applications import (
    CorrectRequest,
    FillRequest,
    JoinRequest,
    LookupRequest,
    MappingService,
)
from repro.cluster import (
    ClusterRouter,
    HashRing,
    NoHealthyReplicaError,
    ROUTER_REQUEST_KINDS,
    cut_shard_artifacts,
    replica_shards,
)
from repro.core.config import SynthesisConfig
from repro.core.pipeline import SynthesisPipeline
from repro.serving import SynthesisDaemon
from repro.serving.daemon import REQUEST_KINDS
from repro.store.artifact import load_artifact
from repro.store.format import ArtifactReader

pytestmark = pytest.mark.cluster


def canonical(responses) -> str:
    """Byte-comparable form of a batch: everything except timing."""
    return repr([(r.kind, r.request_index, r.result, r.error) for r in responses])


def match_keys(matches) -> list[tuple]:
    """Structural identity of a match list (MappingRelationship.__repr__ shows
    set fields, whose ordering is hash-seed dependent across processes)."""
    return [
        (m.mapping.mapping_id, m.left_containment, m.right_containment, m.direction)
        for m in matches
    ]


MIXED_BATCHES = [
    ("autofill", [
        FillRequest(keys=("California", "Texas", "Ohio", "Washington")),
        FillRequest(keys=("California", "Texas"), examples={0: "CA"}),
        FillRequest(keys=("California",), examples={9: "CA"}),  # malformed
        FillRequest(keys=()),
    ]),
    ("autojoin", [
        JoinRequest(left_keys=("California", "Texas"), right_keys=("TX", "CA")),
        JoinRequest(left_keys=("junk", "values"), right_keys=("only",)),
    ]),
    ("autocorrect", [
        CorrectRequest(values=("California", "Washington", "Oregon", "CA", "WA")),
        CorrectRequest(values=()),
    ]),
]


# ---------------------------------------------------------------------------------------
# Fixtures: one small artifact for the whole module
# ---------------------------------------------------------------------------------------
@pytest.fixture(scope="module")
def cluster_config() -> SynthesisConfig:
    return SynthesisConfig(
        use_pmi_filter=False, min_domains=1, min_mapping_size=2, min_rows=4
    )


@pytest.fixture(scope="module")
def artifact_path(store_corpus, cluster_config, tmp_path_factory):
    pipeline = SynthesisPipeline(cluster_config)
    pipeline.run(store_corpus)
    return pipeline.save_artifact(tmp_path_factory.mktemp("cluster") / "full.artifact")


@pytest.fixture(scope="module")
def oracle(artifact_path) -> MappingService:
    return MappingService.from_artifact(artifact_path)


def make_router(artifact_path, tmp_path, **kwargs) -> ClusterRouter:
    kwargs.setdefault("num_shards", 3)
    kwargs.setdefault("replication", 2)
    kwargs.setdefault("watch", False)
    kwargs.setdefault("workers", 2)
    return ClusterRouter.from_artifact(
        artifact_path, shard_dir=tmp_path / "shards", **kwargs
    )


# ---------------------------------------------------------------------------------------
# HashRing
# ---------------------------------------------------------------------------------------
class TestHashRing:
    def test_placement_is_deterministic_across_instances(self):
        a, b = HashRing(5), HashRing(5)
        keys = [f"mapping-{i}" for i in range(200)]
        assert [a.shard_of(k) for k in keys] == [b.shard_of(k) for k in keys]

    def test_every_shard_receives_keys(self):
        ring = HashRing(4)
        shards = {ring.shard_of(f"key-{i}") for i in range(500)}
        assert shards == {0, 1, 2, 3}

    def test_single_shard_ring_routes_everything_to_it(self):
        ring = HashRing(1)
        assert {ring.shard_of(f"k{i}") for i in range(20)} == {0}

    def test_batch_matches_single_lookups(self):
        ring = HashRing(3)
        keys = [f"m{i}" for i in range(50)]
        assert ring.shards_of(keys) == {k: ring.shard_of(k) for k in keys}

    def test_growth_moves_only_some_keys(self):
        # Consistent hashing: growing the ring must not reshuffle everything.
        small, large = HashRing(4), HashRing(5)
        keys = [f"key-{i}" for i in range(400)]
        moved = sum(1 for k in keys if small.shard_of(k) != large.shard_of(k))
        assert 0 < moved < len(keys)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_invalid_shard_count_rejected(self, bad):
        with pytest.raises(ValueError):
            HashRing(bad)

    def test_invalid_virtual_nodes_rejected(self):
        with pytest.raises(ValueError):
            HashRing(2, virtual_nodes=0)


class TestReplicaShards:
    def test_union_covers_every_shard(self):
        for replication in (1, 2, 3):
            assignments = replica_shards(5, replication)
            assert set().union(*assignments) == set(range(5))

    def test_each_shard_hosted_replication_times(self):
        assignments = replica_shards(4, 2)
        for shard in range(4):
            assert sum(shard in shards for shards in assignments) == 2

    def test_replication_clamped_to_shard_count(self):
        assert replica_shards(2, 9) == [frozenset({0, 1}), frozenset({0, 1})]

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            replica_shards(0, 1)
        with pytest.raises(ValueError):
            replica_shards(3, 0)


# ---------------------------------------------------------------------------------------
# Shard artifact cutting
# ---------------------------------------------------------------------------------------
class TestShardCutting:
    def test_slices_partition_the_served_pool(self, artifact_path, oracle, tmp_path):
        ring = HashRing(3)
        paths = cut_shard_artifacts(artifact_path, tmp_path / "r1", ring, replication=1)
        assert len(paths) == 3
        pool_ids = {m.mapping_id for m in oracle.mapping_pool}
        slices = [
            {m.mapping_id for m in MappingService.from_artifact(p).mapping_pool}
            for p in paths
        ]
        assert set().union(*slices) == pool_ids
        for i in range(3):
            for j in range(i + 1, 3):
                assert not (slices[i] & slices[j])

    def test_replication_two_hosts_each_mapping_twice(
        self, artifact_path, oracle, tmp_path
    ):
        paths = cut_shard_artifacts(
            artifact_path, tmp_path / "r2", HashRing(3), replication=2
        )
        copies: dict[str, int] = {}
        for p in paths:
            for m in load_artifact(p).mappings:
                copies[m.mapping_id] = copies.get(m.mapping_id, 0) + 1
        assert copies  # the fixture corpus synthesizes a non-empty pool
        assert set(copies.values()) == {2}

    def test_clean_sections_are_copied_verbatim(self, artifact_path, tmp_path):
        paths = cut_shard_artifacts(
            artifact_path, tmp_path / "verbatim", HashRing(2), replication=1
        )
        source = ArtifactReader.from_path(artifact_path)
        shard = ArtifactReader.from_path(paths[0])
        # Untouched sections keep the exact stored bytes (same checksum) —
        # the ArtifactWriter.add_stored reuse path, no decode / re-encode.
        for name in ("config", "fingerprints", "stats"):
            assert shard.sections[name].checksum == source.sections[name].checksum
        # Pipeline-only sections are emptied, so replicas never decode them.
        assert shard.item_count("candidates") == 0
        assert shard.item_count("profiles") == 0

    def test_replica_load_decodes_only_its_slice(self, artifact_path, tmp_path):
        paths = cut_shard_artifacts(
            artifact_path, tmp_path / "lazy", HashRing(2), replication=1
        )
        shard = load_artifact(paths[0])
        service = MappingService.from_artifact_object(shard)
        assert len(service.mapping_pool) == len(shard.mappings)
        counts = shard.reader.decode_counts
        assert counts.get("candidates", 0) == 0
        assert counts.get("profiles", 0) == 0
        assert counts.get("edges", 0) == 0

    def test_only_replica_rewrites_one_file(self, artifact_path, tmp_path):
        ring = HashRing(3)
        out = tmp_path / "partial"
        paths = cut_shard_artifacts(artifact_path, out, ring, replication=2)
        before = [p.stat().st_mtime_ns for p in paths]
        time.sleep(0.01)
        cut_shard_artifacts(
            artifact_path, out, ring, replication=2, only_replica=1
        )
        after = [p.stat().st_mtime_ns for p in paths]
        assert after[1] > before[1]
        assert after[0] == before[0] and after[2] == before[2]


# ---------------------------------------------------------------------------------------
# The cluster_lookup request kind
# ---------------------------------------------------------------------------------------
class TestClusterLookupKind:
    def test_kind_is_registered_with_the_daemon(self):
        assert "cluster_lookup" in REQUEST_KINDS

    def test_lookup_request_validates_op(self):
        with pytest.raises(ValueError, match="unknown lookup op"):
            LookupRequest(op="fuzzy", values=("a",))

    def test_service_lookup_matches_index(self, oracle):
        request = LookupRequest(
            op="values", values=("California", "Texas"), min_containment=0.5, top_k=3
        )
        [response] = oracle.cluster_lookup([request])
        assert response.ok
        direct = oracle.index.lookup(
            ["California", "Texas"], min_containment=0.5, top_k=3
        )
        assert match_keys(response.result) == match_keys(direct)

    def test_pairs_lookup_matches_index(self, oracle):
        request = LookupRequest(
            op="pairs",
            values=(("California", "CA"),),
            min_containment=0.99,
            top_k=3,
        )
        [response] = oracle.cluster_lookup([request])
        assert response.ok
        direct = oracle.index.lookup_pairs(
            [("California", "CA")], min_containment=0.99, top_k=3
        )
        assert match_keys(response.result) == match_keys(direct)

    def test_errors_stay_enveloped(self, oracle):
        bad = LookupRequest(op="values", values=("x",), min_containment=7.0)
        [response] = oracle.cluster_lookup([bad])
        assert not response.ok
        assert "min_containment" in response.error

    def test_served_through_a_daemon(self, artifact_path, oracle):
        with SynthesisDaemon.from_artifact(artifact_path, watch=False, workers=2) as d:
            request = LookupRequest(op="values", values=("California", "Texas"))
            result = d.submit("cluster_lookup", (request,), block=True).result(
                timeout=30
            )
            assert result.responses[0].ok
            assert match_keys(result.responses[0].result) == match_keys(
                oracle.index.lookup(["California", "Texas"])
            )


# ---------------------------------------------------------------------------------------
# Router: equivalence, failover, rollout
# ---------------------------------------------------------------------------------------
class TestRouterServing:
    @pytest.fixture(scope="class")
    def router(self, artifact_path, tmp_path_factory):
        router = make_router(artifact_path, tmp_path_factory.mktemp("router"))
        yield router
        router.close()

    def test_mixed_batches_equal_oracle(self, router, oracle):
        for kind, batch in MIXED_BATCHES:
            assert canonical(router.serve(kind, batch)) == canonical(
                getattr(oracle, kind)(batch)
            )

    def test_named_entry_points_equal_oracle(self, router, oracle):
        batch = [FillRequest(keys=("California", "Texas"))]
        assert canonical(router.autofill(batch)) == canonical(oracle.autofill(batch))
        join = [JoinRequest(left_keys=("California",), right_keys=("CA",))]
        assert canonical(router.autojoin(join)) == canonical(oracle.autojoin(join))
        correct = [CorrectRequest(values=("California", "CA", "Texas"))]
        assert canonical(router.autocorrect(correct)) == canonical(
            oracle.autocorrect(correct)
        )

    def test_empty_batches(self, router):
        assert router.autofill([]) == []
        assert router.serve("autojoin", []) == []

    def test_unknown_kind_rejected(self, router):
        with pytest.raises(ValueError, match="unknown request kind"):
            router.serve("cluster_lookup", [])

    def test_health_reports_ok_and_counts(self, router):
        router.autofill([FillRequest(keys=("California",))])
        health = router.health()
        assert health["status"] == "ok"
        assert health["num_shards"] == 3
        assert health["replication"] == 2
        assert len(health["replicas"]) == 3
        assert health["requests"].get("autofill", 0) >= 1


class TestFailover:
    def test_transport_failure_reroutes_and_recovers(
        self, artifact_path, oracle, tmp_path
    ):
        router = make_router(
            artifact_path, tmp_path, breaker_cooldown=0.05
        )
        with router:
            victim = router.replicas[0]
            original = victim.daemon.submit
            state = {"failures": 0}

            def flaky_submit(*args, **kwargs):
                if state["failures"] < 1:
                    state["failures"] += 1
                    raise OSError("injected transport failure")
                return original(*args, **kwargs)

            victim.daemon.submit = flaky_submit
            batch = [FillRequest(keys=("California", "Texas", "Ohio"))]
            # The failing replica trips its breaker; the scatter re-routes and
            # the answer is still byte-identical.
            assert canonical(router.autofill(batch)) == canonical(
                oracle.autofill(batch)
            )
            assert state["failures"] == 1
            health = router.health()
            assert health["reroutes"] >= 1
            assert health["replicas"][0]["breaker"]["state"] == "open"
            assert health["status"] == "degraded"
            # After the cooldown a half-open probe readmits the replica.
            time.sleep(0.06)
            assert canonical(router.autofill(batch)) == canonical(
                oracle.autofill(batch)
            )
            assert router.replicas[0].breaker.state == "closed"
            assert router.health()["status"] == "ok"

    def test_killed_replica_is_routed_around(self, artifact_path, oracle, tmp_path):
        router = make_router(artifact_path, tmp_path)
        with router:
            router.kill(1)
            for kind, batch in MIXED_BATCHES:
                assert canonical(router.serve(kind, batch)) == canonical(
                    getattr(oracle, kind)(batch)
                )
            health = router.health()
            assert health["status"] == "degraded"
            assert any("replica 1" in reason for reason in health["degraded_reasons"])

    def test_uncovered_shards_become_error_envelopes(
        self, artifact_path, tmp_path
    ):
        router = make_router(artifact_path, tmp_path)
        with router:
            router.kill(1)
            router.kill(2)  # replica 0 alone hosts shards {0, 1}: shard 2 is gone
            responses = router.autofill([FillRequest(keys=("California",))])
            assert not responses[0].ok
            assert "no healthy replica" in responses[0].error
            # The router object itself survives total shard loss.
            assert router.health()["status"] == "degraded"


class TestRollout:
    def test_rolling_reload_switches_to_the_new_oracle(
        self, store_corpus, cluster_config, tmp_path
    ):
        pipeline = SynthesisPipeline(cluster_config)
        pipeline.run(store_corpus)
        path = pipeline.save_artifact(tmp_path / "v1.artifact")
        oracle_v1 = MappingService.from_artifact(path)

        router = make_router(
            path, tmp_path, watch=True, poll_seconds=0.05
        )
        with router:
            batch = [FillRequest(keys=("California", "Texas", "Ohio"))]
            assert canonical(router.autofill(batch)) == canonical(
                oracle_v1.autofill(batch)
            )
            generations_before = [r.daemon.generation.number for r in router.replicas]

            # Publish a v2 with half the pool (so the pool composition really
            # changes), roll it out one replica at a time, and check the
            # router now answers as the v2 oracle.
            v2_path = tmp_path / "v2.artifact"
            pool = oracle_v1.mapping_pool
            pruned = pool[: max(1, len(pool) // 2)]
            artifact_v2 = load_artifact(path).evolve(
                mappings=pruned,
                curated_ids=[m.mapping_id for m in pruned],
            )
            from repro.store.artifact import save_artifact

            save_artifact(artifact_v2, v2_path)
            oracle_v2 = MappingService.from_artifact(v2_path)

            generations = router.rollout(v2_path, timeout=30)
            assert all(
                after == before + 1
                for after, before in zip(generations, generations_before)
            )
            assert canonical(router.autofill(batch)) == canonical(
                oracle_v2.autofill(batch)
            )
            assert router.health()["rollouts"] == 1

    def test_rollout_skips_closed_replicas(self, artifact_path, oracle, tmp_path):
        router = make_router(
            artifact_path, tmp_path, watch=True, poll_seconds=0.05
        )
        with router:
            router.kill(2)
            generations = router.rollout(artifact_path, timeout=30)
            assert generations[2] == 1  # dead replica never advanced
            assert generations[0] == 2 and generations[1] == 2
            batch = [FillRequest(keys=("California", "Texas"))]
            assert canonical(router.autofill(batch)) == canonical(
                oracle.autofill(batch)
            )
